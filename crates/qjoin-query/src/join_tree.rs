//! Join trees: rooted trees over query atoms satisfying the running-intersection
//! property.

use crate::{JoinQuery, Variable};
use std::collections::BTreeSet;

/// A node of a [`JoinTree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinTreeNode {
    /// Index of the query atom this node corresponds to.
    pub atom_index: usize,
    /// Parent node id, `None` for the root.
    pub parent: Option<usize>,
    /// Child node ids.
    pub children: Vec<usize>,
}

/// A rooted join tree of an acyclic join query.
///
/// Nodes are identified by indices `0..num_nodes()`; each node corresponds to exactly
/// one query atom (`atom_index`). The tree satisfies the *running intersection
/// property*: for every variable, the nodes whose atoms contain it form a connected
/// subtree. All message-passing algorithms in the stack (counting, pivot selection,
/// sketched sums) traverse a join tree bottom-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinTree {
    nodes: Vec<JoinTreeNode>,
    root: usize,
}

impl JoinTree {
    /// Builds a join tree from an undirected edge list over atom indices, rooted at
    /// `root`. The edge list must form a tree spanning `num_nodes` nodes.
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize)], root: usize) -> JoinTree {
        assert!(root < num_nodes, "root out of range");
        assert_eq!(
            edges.len(),
            num_nodes.saturating_sub(1),
            "a tree on {num_nodes} nodes needs {} edges",
            num_nodes.saturating_sub(1)
        );
        let mut adj = vec![Vec::new(); num_nodes];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut nodes: Vec<JoinTreeNode> = (0..num_nodes)
            .map(|i| JoinTreeNode {
                atom_index: i,
                parent: None,
                children: Vec::new(),
            })
            .collect();
        // BFS orientation from the root.
        let mut visited = vec![false; num_nodes];
        let mut queue = std::collections::VecDeque::from([root]);
        visited[root] = true;
        let mut reached = 1usize;
        while let Some(u) = queue.pop_front() {
            let mut neighbours = adj[u].clone();
            neighbours.sort_unstable();
            for v in neighbours {
                if !visited[v] {
                    visited[v] = true;
                    reached += 1;
                    nodes[v].parent = Some(u);
                    nodes[u].children.push(v);
                    queue.push_back(v);
                }
            }
        }
        assert_eq!(reached, num_nodes, "edge list does not span all nodes");
        JoinTree { nodes, root }
    }

    /// Builds the trivial join tree of a single-atom query.
    pub fn single_node() -> JoinTree {
        JoinTree {
            nodes: vec![JoinTreeNode {
                atom_index: 0,
                parent: None,
                children: Vec::new(),
            }],
            root: 0,
        }
    }

    /// The root node id.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of nodes (equal to the number of query atoms).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Access a node by id.
    pub fn node(&self, id: usize) -> &JoinTreeNode {
        &self.nodes[id]
    }

    /// All nodes, indexed by id.
    pub fn nodes(&self) -> &[JoinTreeNode] {
        &self.nodes
    }

    /// Node ids in bottom-up (post-) order: every node appears after all of its
    /// children. This is the traversal order of the message-passing framework.
    pub fn bottom_up_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        self.post_order(self.root, &mut order);
        order
    }

    fn post_order(&self, node: usize, out: &mut Vec<usize>) {
        for &c in &self.nodes[node].children {
            self.post_order(c, out);
        }
        out.push(node);
    }

    /// Node ids in top-down (pre-) order: every node appears before its children.
    pub fn top_down_order(&self) -> Vec<usize> {
        let mut order = self.bottom_up_order();
        order.reverse();
        order
    }

    /// The undirected edges of the tree as `(parent, child)` pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.parent.map(|p| (p, i)))
            .collect()
    }

    /// Returns the same tree re-rooted at `new_root`.
    pub fn rerooted(&self, new_root: usize) -> JoinTree {
        let edges = self.edges();
        let mut tree = JoinTree::from_edges(self.nodes.len(), &edges, new_root);
        for (i, n) in self.nodes.iter().enumerate() {
            tree.nodes[i].atom_index = n.atom_index;
        }
        tree
    }

    /// True if every node has at most two children (required by the lossy trimming of
    /// Section 6; see [`crate::binary::binarize_encoded`]).
    pub fn is_binary(&self) -> bool {
        self.nodes.iter().all(|n| n.children.len() <= 2)
    }

    /// The height of the tree: number of nodes on the longest root-to-leaf path.
    pub fn height(&self) -> usize {
        fn depth(tree: &JoinTree, node: usize) -> usize {
            1 + tree.nodes[node]
                .children
                .iter()
                .map(|&c| depth(tree, c))
                .max()
                .unwrap_or(0)
        }
        depth(self, self.root)
    }

    /// Pairs of node ids that are adjacent in the tree (parent–child pairs).
    pub fn adjacent_pairs(&self) -> Vec<(usize, usize)> {
        self.edges()
    }

    /// Checks the running-intersection property of this tree against the query.
    pub fn satisfies_running_intersection(&self, query: &JoinQuery) -> bool {
        check_running_intersection(query, &self.edges(), self.nodes.len())
    }

    /// The variables shared between a node's atom and its parent's atom; empty for the
    /// root. These are the "join group" keys of the message-passing framework.
    pub fn shared_with_parent(&self, query: &JoinQuery, node: usize) -> BTreeSet<Variable> {
        match self.nodes[node].parent {
            None => BTreeSet::new(),
            Some(p) => {
                let child_vars = query.atom(self.nodes[node].atom_index).variable_set();
                let parent_vars = query.atom(self.nodes[p].atom_index).variable_set();
                child_vars.intersection(&parent_vars).cloned().collect()
            }
        }
    }
}

/// Checks the running-intersection property for an undirected tree given by `edges`
/// over `num_nodes` atoms of `query` (node `i` ↔ atom `i`).
pub fn check_running_intersection(
    query: &JoinQuery,
    edges: &[(usize, usize)],
    num_nodes: usize,
) -> bool {
    let mut adj = vec![Vec::new(); num_nodes];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    for var in query.variable_set() {
        let holders: Vec<usize> = (0..num_nodes)
            .filter(|&i| query.atom(i).contains(&var))
            .collect();
        if holders.len() <= 1 {
            continue;
        }
        // BFS within the induced subgraph of holder nodes.
        let holder_set: BTreeSet<usize> = holders.iter().copied().collect();
        let mut visited = BTreeSet::new();
        let mut queue = std::collections::VecDeque::from([holders[0]]);
        visited.insert(holders[0]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if holder_set.contains(&v) && visited.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        if visited.len() != holders.len() {
            return false;
        }
    }
    true
}

/// Enumerates **all** join trees of the query (as rooted trees with root 0), by
/// enumerating labelled trees via Prüfer sequences and keeping those that satisfy the
/// running-intersection property.
///
/// This is exhaustive and therefore only allowed for queries with at most
/// [`MAX_ENUMERATION_ATOMS`] atoms; beyond that it returns only the GYO tree (if any).
/// The quantile algorithms use this to search for a join tree in which the weighted
/// variables of a partial SUM lie on one or two adjacent nodes (Lemma D.1).
pub fn enumerate_join_trees(query: &JoinQuery) -> Vec<JoinTree> {
    let n = query.num_atoms();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![JoinTree::single_node()];
    }
    if n == 2 {
        let edges = [(0usize, 1usize)];
        if check_running_intersection(query, &edges, 2) {
            return vec![JoinTree::from_edges(2, &edges, 0)];
        }
        return Vec::new();
    }
    if n > MAX_ENUMERATION_ATOMS {
        return crate::acyclicity::gyo_join_tree(query)
            .into_iter()
            .collect();
    }
    let mut out = Vec::new();
    let seq_len = n - 2;
    let total = (n as u64).pow(seq_len as u32);
    let mut seq = vec![0usize; seq_len];
    for code in 0..total {
        let mut c = code;
        for s in seq.iter_mut() {
            *s = (c % n as u64) as usize;
            c /= n as u64;
        }
        let edges = decode_pruefer(&seq, n);
        if check_running_intersection(query, &edges, n) {
            out.push(JoinTree::from_edges(n, &edges, 0));
        }
    }
    out
}

/// Maximum query size for exhaustive join-tree enumeration (8 atoms ⇒ at most
/// 8^6 = 262144 candidate trees).
pub const MAX_ENUMERATION_ATOMS: usize = 8;

/// Decodes a Prüfer sequence into the edge list of the corresponding labelled tree.
fn decode_pruefer(seq: &[usize], n: usize) -> Vec<(usize, usize)> {
    let mut degree = vec![1usize; n];
    for &s in seq {
        degree[s] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    let mut used = vec![false; n];
    for &s in seq {
        let leaf = (0..n)
            .find(|&i| degree[i] == 1 && !used[i])
            .expect("valid sequence");
        edges.push((leaf, s));
        used[leaf] = true;
        degree[leaf] -= 1;
        degree[s] -= 1;
    }
    let remaining: Vec<usize> = (0..n).filter(|&i| degree[i] == 1 && !used[i]).collect();
    assert_eq!(remaining.len(), 2);
    edges.push((remaining[0], remaining[1]));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{
        figure1_query, path_query, social_network_query, star_query, triangle_query,
    };

    #[test]
    fn from_edges_orients_towards_root() {
        let tree = JoinTree::from_edges(3, &[(0, 1), (1, 2)], 0);
        assert_eq!(tree.root(), 0);
        assert_eq!(tree.node(1).parent, Some(0));
        assert_eq!(tree.node(2).parent, Some(1));
        assert_eq!(tree.node(0).children, vec![1]);
    }

    #[test]
    fn bottom_up_order_visits_children_first() {
        let tree = JoinTree::from_edges(4, &[(0, 1), (0, 2), (2, 3)], 0);
        let order = tree.bottom_up_order();
        assert_eq!(order.len(), 4);
        assert_eq!(*order.last().unwrap(), 0);
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(3) < pos(2));
        assert!(pos(1) < pos(0));
        assert!(pos(2) < pos(0));
    }

    #[test]
    fn top_down_is_reverse_of_bottom_up() {
        let tree = JoinTree::from_edges(3, &[(0, 1), (1, 2)], 0);
        let mut bu = tree.bottom_up_order();
        bu.reverse();
        assert_eq!(bu, tree.top_down_order());
    }

    #[test]
    fn rerooting_preserves_edges() {
        let tree = JoinTree::from_edges(4, &[(0, 1), (1, 2), (2, 3)], 0);
        let rerooted = tree.rerooted(3);
        assert_eq!(rerooted.root(), 3);
        let mut e1: Vec<(usize, usize)> = tree
            .edges()
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        let mut e2: Vec<(usize, usize)> = rerooted
            .edges()
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2);
    }

    #[test]
    fn running_intersection_for_path_query() {
        let q = path_query(3);
        assert!(check_running_intersection(&q, &[(0, 1), (1, 2)], 3));
        // Attaching R3 to R1 breaks connectivity of x3's nodes? x3 is in atoms 1 and 2
        // which would not be adjacent: 0-1, 0-2 -> x3 holders {1,2} not connected.
        assert!(!check_running_intersection(&q, &[(0, 1), (0, 2)], 3));
    }

    #[test]
    fn height_and_binary_checks() {
        let chain = JoinTree::from_edges(4, &[(0, 1), (1, 2), (2, 3)], 0);
        assert_eq!(chain.height(), 4);
        assert!(chain.is_binary());
        let wide = JoinTree::from_edges(4, &[(0, 1), (0, 2), (0, 3)], 0);
        assert_eq!(wide.height(), 2);
        assert!(!wide.is_binary());
    }

    #[test]
    fn shared_with_parent_computes_join_keys() {
        let q = figure1_query();
        // Atoms: R(x1,x2)=0, S(x1,x3)=1, T(x2,x4)=2, U(x4,x5)=3; Figure 1 tree.
        let tree = JoinTree::from_edges(4, &[(0, 1), (0, 2), (2, 3)], 0);
        assert!(tree.satisfies_running_intersection(&q));
        let s_shared = tree.shared_with_parent(&q, 1);
        assert_eq!(s_shared, [Variable::new("x1")].into_iter().collect());
        let u_shared = tree.shared_with_parent(&q, 3);
        assert_eq!(u_shared, [Variable::new("x4")].into_iter().collect());
        assert!(tree.shared_with_parent(&q, 0).is_empty());
    }

    #[test]
    fn enumerate_join_trees_of_acyclic_queries() {
        // 2-path: the only tree is the edge R1-R2.
        assert_eq!(enumerate_join_trees(&path_query(2)).len(), 1);
        // 3-path: only the chain R1-R2-R3 satisfies running intersection (3 labelled
        // trees exist in total).
        let trees = enumerate_join_trees(&path_query(3));
        assert_eq!(trees.len(), 1);
        assert!(trees[0].satisfies_running_intersection(&path_query(3)));
        // Star with 3 leaves: any tree on 3 nodes works because every pair of atoms
        // shares the centre variable; 3 labelled trees.
        assert_eq!(enumerate_join_trees(&star_query(3)).len(), 3);
    }

    #[test]
    fn enumerate_join_trees_of_cyclic_query_is_empty() {
        assert!(enumerate_join_trees(&triangle_query()).is_empty());
    }

    #[test]
    fn social_network_has_multiple_join_trees() {
        let trees = enumerate_join_trees(&social_network_query());
        // All three atoms share the event variable e, so all 3 labelled trees on 3
        // nodes are join trees.
        assert_eq!(trees.len(), 3);
        for t in &trees {
            assert!(t.satisfies_running_intersection(&social_network_query()));
        }
    }

    #[test]
    fn single_node_tree() {
        let t = JoinTree::single_node();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.bottom_up_order(), vec![0]);
        assert!(t.is_binary());
        assert_eq!(t.height(), 1);
    }

    #[test]
    #[should_panic(expected = "edge list does not span")]
    fn from_edges_rejects_disconnected() {
        // 4 nodes, 3 edges, but one node unreachable (edge duplicated).
        JoinTree::from_edges(4, &[(0, 1), (1, 0), (2, 3)], 0);
    }
}
