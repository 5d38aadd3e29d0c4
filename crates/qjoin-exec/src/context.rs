//! Join-tree execution contexts: materialized, semi-join reduced node relations with
//! join-group indexes.

use crate::{ExecError, Result};
use qjoin_data::{Tuple, Value};
use qjoin_query::{acyclicity, Instance, JoinQuery, JoinTree, Variable};
use std::collections::HashMap;

/// Per-node state of a [`JoinTreeContext`].
#[derive(Clone, Debug)]
pub struct NodeData {
    /// The join-tree node id this data belongs to.
    pub node_id: usize,
    /// Index of the query atom materialized at this node.
    pub atom_index: usize,
    /// The node's tuples after semi-join reduction (every tuple participates in at
    /// least one query answer).
    pub tuples: Vec<Tuple>,
    /// Variables shared with the parent node, in sorted order (empty for the root).
    pub shared_vars: Vec<Variable>,
    /// Positions of `shared_vars` within this node's atom.
    pub own_key_positions: Vec<usize>,
    /// Positions of `shared_vars` within the parent node's atom.
    pub parent_key_positions: Vec<usize>,
    /// Join groups: join-key values → indices into `tuples`. All tuples in a group
    /// agree on the variables shared with the parent (Section 2.4 of the paper).
    pub groups: HashMap<Vec<Value>, Vec<usize>>,
}

impl NodeData {
    /// The join key of one of this node's own tuples (its projection onto the
    /// variables shared with the parent).
    pub fn own_key(&self, tuple: &Tuple) -> Vec<Value> {
        self.own_key_positions
            .iter()
            .map(|&p| tuple[p].clone())
            .collect()
    }

    /// The join key that a *parent* tuple exposes towards this node.
    pub fn key_from_parent(&self, parent_tuple: &Tuple) -> Vec<Value> {
        self.parent_key_positions
            .iter()
            .map(|&p| parent_tuple[p].clone())
            .collect()
    }
}

/// A rooted join tree together with materialized, semi-join reduced relations and
/// join-group indexes for every node.
///
/// Building a context performs the "preprocessing" of the message-passing pattern
/// (Section 2.4): choose a join tree, materialize a relation per node, and group each
/// child relation by the variables shared with its parent. On top of that, the full
/// reducer (Yannakakis' semi-join program) is applied so that every remaining tuple
/// participates in at least one query answer; this keeps the counting, pivoting, and
/// direct-access algorithms free of dangling-tuple special cases.
#[derive(Clone, Debug)]
pub struct JoinTreeContext {
    query: JoinQuery,
    tree: JoinTree,
    nodes: Vec<NodeData>,
}

impl JoinTreeContext {
    /// Builds a context for an acyclic instance using its GYO join tree.
    pub fn build(instance: &Instance) -> Result<Self> {
        let tree = acyclicity::gyo_join_tree(instance.query())
            .ok_or_else(|| ExecError::CyclicQuery(instance.query().to_string()))?;
        Self::build_with_tree(instance, tree)
    }

    /// Builds a context for an acyclic instance using the provided join tree (which
    /// must be a valid join tree of the instance's query).
    pub fn build_with_tree(instance: &Instance, tree: JoinTree) -> Result<Self> {
        let query = instance.query().clone();
        debug_assert!(tree.satisfies_running_intersection(&query));

        // 1. Materialize per-node tuples, dropping tuples that are internally
        //    inconsistent with repeated variables in the atom (e.g. R(x, x)).
        let mut nodes: Vec<NodeData> = Vec::with_capacity(tree.num_nodes());
        for node_id in 0..tree.num_nodes() {
            let atom_index = tree.node(node_id).atom_index;
            let atom = query.atom(atom_index);
            let relation = instance.relation_of_atom(atom_index);
            let tuples: Vec<Tuple> = relation
                .iter()
                .filter(|t| tuple_consistent_with_atom(t, atom))
                .cloned()
                .collect();

            let shared: Vec<Variable> = tree
                .shared_with_parent(&query, node_id)
                .into_iter()
                .collect();
            let own_key_positions: Vec<usize> =
                shared.iter().map(|v| atom.positions_of(v)[0]).collect();
            let parent_key_positions: Vec<usize> = match tree.node(node_id).parent {
                None => Vec::new(),
                Some(p) => {
                    let parent_atom = query.atom(tree.node(p).atom_index);
                    shared
                        .iter()
                        .map(|v| parent_atom.positions_of(v)[0])
                        .collect()
                }
            };

            nodes.push(NodeData {
                node_id,
                atom_index,
                tuples,
                shared_vars: shared,
                own_key_positions,
                parent_key_positions,
                groups: HashMap::new(),
            });
        }

        let mut ctx = JoinTreeContext { query, tree, nodes };

        // 2. Full reducer: bottom-up semi-joins (parents keep only tuples matched by
        //    every child), then top-down semi-joins (children keep only tuples matched
        //    by their reduced parent).
        for &node_id in &ctx.tree.bottom_up_order() {
            let children = ctx.tree.node(node_id).children.clone();
            for child in children {
                let child_keys: std::collections::HashSet<Vec<Value>> = ctx.nodes[child]
                    .tuples
                    .iter()
                    .map(|t| ctx.nodes[child].own_key(t))
                    .collect();
                let parent_key_positions = ctx.nodes[child].parent_key_positions.clone();
                ctx.nodes[node_id].tuples.retain(|t| {
                    let key: Vec<Value> =
                        parent_key_positions.iter().map(|&p| t[p].clone()).collect();
                    child_keys.contains(&key)
                });
            }
        }
        for &node_id in &ctx.tree.top_down_order() {
            let children = ctx.tree.node(node_id).children.clone();
            for child in children {
                let parent_keys: std::collections::HashSet<Vec<Value>> = ctx.nodes[node_id]
                    .tuples
                    .iter()
                    .map(|t| ctx.nodes[child].key_from_parent(t))
                    .collect();
                let own_key_positions = ctx.nodes[child].own_key_positions.clone();
                ctx.nodes[child].tuples.retain(|t| {
                    let key: Vec<Value> = own_key_positions.iter().map(|&p| t[p].clone()).collect();
                    parent_keys.contains(&key)
                });
            }
        }

        // 3. Group indexes for non-root nodes.
        for node in ctx.nodes.iter_mut() {
            if node.node_id == ctx.tree.root() {
                continue;
            }
            let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, t) in node.tuples.iter().enumerate() {
                groups.entry(node.own_key(t)).or_default().push(i);
            }
            node.groups = groups;
        }

        Ok(ctx)
    }

    /// The query this context evaluates.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The join tree.
    pub fn tree(&self) -> &JoinTree {
        &self.tree
    }

    /// The root node id.
    pub fn root(&self) -> usize {
        self.tree.root()
    }

    /// Per-node data, indexed by node id.
    pub fn nodes(&self) -> &[NodeData] {
        &self.nodes
    }

    /// Data of one node.
    pub fn node(&self, id: usize) -> &NodeData {
        &self.nodes[id]
    }

    /// True if the query has no answers over the database (some node lost all tuples
    /// during reduction).
    pub fn has_no_answers(&self) -> bool {
        self.nodes.iter().any(|n| n.tuples.is_empty())
    }

    /// The indices of the tuples of `child` that join with the given parent tuple,
    /// together with the join key. Returns an empty slice if no tuple matches (which
    /// cannot happen for tuples that survived the full reducer).
    pub fn child_group(&self, child: usize, parent_tuple: &Tuple) -> &[usize] {
        let key = self.nodes[child].key_from_parent(parent_tuple);
        self.nodes[child]
            .groups
            .get(&key)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of tuples currently stored across all nodes (after reduction).
    pub fn total_tuples(&self) -> usize {
        self.nodes.iter().map(|n| n.tuples.len()).sum()
    }
}

/// True if the tuple assigns the same value to every occurrence of a repeated variable
/// in the atom.
fn tuple_consistent_with_atom(tuple: &Tuple, atom: &qjoin_query::Atom) -> bool {
    for (var, first_pos) in atom.distinct_variable_positions() {
        let positions = atom.positions_of(&var);
        if positions.iter().any(|&p| tuple[p] != tuple[first_pos]) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::{Database, Relation};
    use qjoin_query::query::{figure1_query, path_query};
    use qjoin_query::Atom;

    /// The database of Figure 1 of the paper.
    pub(crate) fn figure1_instance() -> Instance {
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
    fn context_builds_for_figure1() {
        let inst = figure1_instance();
        let ctx = JoinTreeContext::build(&inst).unwrap();
        assert_eq!(ctx.nodes().len(), 4);
        assert!(!ctx.has_no_answers());
        // No dangling tuples in Figure 1's database, so nothing is removed.
        assert_eq!(ctx.total_tuples(), inst.database_size());
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            db.add_relation(Relation::from_rows(name, &[&[1, 1]]).unwrap())
                .unwrap();
        }
        let inst = Instance::new(qjoin_query::query::triangle_query(), db).unwrap();
        assert!(matches!(
            JoinTreeContext::build(&inst).unwrap_err(),
            ExecError::CyclicQuery(_)
        ));
    }

    #[test]
    fn full_reducer_removes_dangling_tuples() {
        // R1(x1,x2) ⋈ R2(x2,x3): the R1 tuple with x2=99 has no partner and must go;
        // likewise the R2 tuple with x2=98.
        let r1 = Relation::from_rows("R1", &[&[1, 1], &[2, 99]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 10], &[98, 20]]).unwrap();
        let inst =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
        let ctx = JoinTreeContext::build(&inst).unwrap();
        assert_eq!(ctx.total_tuples(), 2);
        assert!(!ctx.has_no_answers());
    }

    #[test]
    fn full_reducer_propagates_emptiness() {
        // A 3-path where the middle relation shares no keys with the last one.
        let r1 = Relation::from_rows("R1", &[&[1, 1]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 5]]).unwrap();
        let r3 = Relation::from_rows("R3", &[&[7, 2]]).unwrap();
        let inst = Instance::new(
            path_query(3),
            Database::from_relations([r1, r2, r3]).unwrap(),
        )
        .unwrap();
        let ctx = JoinTreeContext::build(&inst).unwrap();
        assert!(ctx.has_no_answers());
    }

    #[test]
    fn repeated_variable_atoms_filter_inconsistent_tuples() {
        // R(x, x): only tuples with equal components survive.
        let r = Relation::from_rows("R", &[&[1, 1], &[1, 2], &[3, 3]]).unwrap();
        let q = JoinQuery::new(vec![Atom::from_names("R", &["x", "x"])]);
        let inst = Instance::new(q, Database::from_relations([r]).unwrap()).unwrap();
        let ctx = JoinTreeContext::build(&inst).unwrap();
        assert_eq!(ctx.node(0).tuples.len(), 2);
    }

    #[test]
    fn join_groups_partition_child_tuples() {
        let inst = figure1_instance();
        let ctx = JoinTreeContext::build(&inst).unwrap();
        // Find the node materializing S(x1, x3): it is grouped by x1 and has two
        // groups of sizes 3 (x1=1) and 2 (x1=2).
        let s_node = ctx
            .nodes()
            .iter()
            .find(|n| ctx.query().atom(n.atom_index).relation() == "S")
            .unwrap();
        if s_node.node_id != ctx.root() {
            let mut sizes: Vec<usize> = s_node.groups.values().map(|g| g.len()).collect();
            sizes.sort_unstable();
            assert_eq!(sizes, vec![2, 3]);
        }
    }

    #[test]
    fn child_group_lookup_matches_parent_tuple() {
        let inst = figure1_instance();
        // Use the join tree drawn in Figure 1: R is the root, S and T its children,
        // U a child of T. (GYO is free to pick a different rooting.)
        let tree = qjoin_query::JoinTree::from_edges(4, &[(0, 1), (0, 2), (2, 3)], 0);
        let ctx = JoinTreeContext::build_with_tree(&inst, tree).unwrap();
        let u_node = ctx
            .nodes()
            .iter()
            .find(|n| ctx.query().atom(n.atom_index).relation() == "U")
            .unwrap();
        let parent = ctx.tree().node(u_node.node_id).parent.unwrap();
        let parent_data = ctx.node(parent);
        assert_eq!(ctx.query().atom(parent_data.atom_index).relation(), "T");
        // T tuple (1, 6) joins U tuples with x4 = 6: (6,8) and (6,9).
        let t_tuple = parent_data
            .tuples
            .iter()
            .find(|t| t.values() == [Value::from(1), Value::from(6)])
            .unwrap();
        let group = ctx.child_group(u_node.node_id, t_tuple);
        assert_eq!(group.len(), 2);
    }
}
