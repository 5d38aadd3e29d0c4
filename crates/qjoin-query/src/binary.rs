//! Binary join trees.
//!
//! The lossy trimming of Section 6 requires a *binary* join tree (every node has at
//! most two children) so that the per-node blow-up from embedding sketches stays
//! bounded by the square of the sketch size. The paper constructs one "by creating
//! copies of a node that has multiple children, connecting these copies in a chain, and
//! distributing the original children among them".
//!
//! [`binarize_encoded`] realizes that as a query rewriting: a node with `k > 2` children is
//! replaced by a chain of `k - 1` atoms over copies of its relation that share all of
//! the original atom's variables (so joining them is the identity), and the children
//! are distributed along the chain. Answers are preserved one-to-one (same variables),
//! acyclicity is preserved, and the resulting tree is binary with height at most `2ℓ`.
//! The relation copies are renamed selection-vector views sharing the original's
//! code columns, so no code is copied.

use crate::encoded::EncodedInstance;
use crate::{acyclicity, JoinQuery, JoinTree, QueryError, Result};
use qjoin_data::EncodedRelation;
use std::collections::BTreeMap;

/// Result of [`binarize_encoded`]: the rewritten encoded instance and a binary join
/// tree for it.
#[derive(Clone, Debug)]
pub struct BinarizedEncoded {
    /// The rewritten encoded instance (possibly identical to the input).
    pub instance: EncodedInstance,
    /// A binary join tree of `instance.query()`.
    pub tree: JoinTree,
}

/// Rewrites an acyclic encoded instance so that it admits a binary join tree, and
/// returns both the rewritten instance and such a tree (see the module docs): the
/// chain copies are views named `R~bin`, `R~bin#k`, … in layout order. If the GYO
/// join tree of the input is already binary, the instance is returned unchanged
/// together with that tree.
pub fn binarize_encoded(instance: &EncodedInstance) -> Result<BinarizedEncoded> {
    let query = instance.query();
    let tree = acyclicity::gyo_join_tree(query)
        .ok_or_else(|| QueryError::CyclicQuery(query.to_string()))?;
    if tree.is_binary() {
        return Ok(BinarizedEncoded {
            instance: instance.clone(),
            tree,
        });
    }

    let mut atoms = query.atoms().to_vec();
    let mut relations: BTreeMap<String, EncodedRelation> = instance
        .relations()
        .map(|(n, r)| (n.to_string(), r.clone()))
        .collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();

    // Lays out the subtree at `node`; returns the atom index representing it.
    fn lay_out(
        tree: &JoinTree,
        node: usize,
        atoms: &mut Vec<crate::Atom>,
        relations: &mut BTreeMap<String, EncodedRelation>,
        edges: &mut Vec<(usize, usize)>,
    ) -> usize {
        let atom_index = tree.node(node).atom_index;
        let children = tree.node(node).children.clone();
        let child_heads: Vec<usize> = children
            .iter()
            .map(|&c| lay_out(tree, c, atoms, relations, edges))
            .collect();
        let self_index = atom_index;
        if child_heads.len() <= 2 {
            for h in child_heads {
                edges.push((self_index, h));
            }
            return self_index;
        }
        // Chain: the original atom keeps the first child; each extra child hangs off
        // a fresh copy of the atom, and the final child shares the last chain node.
        edges.push((self_index, child_heads[0]));
        let mut chain_tail = self_index;
        for (i, &head) in child_heads[1..].iter().enumerate() {
            let is_last = i == child_heads.len() - 2;
            if is_last {
                edges.push((chain_tail, head));
            } else {
                let original_atom = atoms[atom_index].clone();
                let fresh_rel = crate::encoded::fresh_relation_name(
                    relations,
                    &format!("{}~bin", original_atom.relation()),
                );
                let copy_rel = relations
                    .get(original_atom.relation())
                    .expect("validated")
                    .renamed(fresh_rel.clone());
                relations.insert(fresh_rel.clone(), copy_rel);
                let copy_atom = original_atom.renamed(fresh_rel);
                atoms.push(copy_atom);
                let copy_index = atoms.len() - 1;
                edges.push((chain_tail, copy_index));
                edges.push((copy_index, head));
                chain_tail = copy_index;
            }
        }
        self_index
    }

    let root_index = lay_out(&tree, tree.root(), &mut atoms, &mut relations, &mut edges);
    let new_query = JoinQuery::new(atoms);
    let num_nodes = new_query.num_atoms();
    let new_tree = JoinTree::from_edges(num_nodes, &edges, root_index);
    debug_assert!(new_tree.satisfies_running_intersection(&new_query));
    debug_assert!(new_tree.is_binary());
    let new_instance = EncodedInstance::new(
        new_query,
        std::sync::Arc::clone(instance.dictionary()),
        relations,
    )?;
    Ok(BinarizedEncoded {
        instance: new_instance,
        tree: new_tree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{path_query, star_query};
    use crate::{Atom, Instance};
    use qjoin_data::{Database, Relation, Value};

    fn binarize(instance: &Instance) -> Result<BinarizedEncoded> {
        binarize_encoded(&EncodedInstance::from_instance(instance)?)
    }

    fn star_instance(k: usize, rows_per_rel: i64) -> Instance {
        let mut db = Database::new();
        for i in 1..=k {
            let mut rel = Relation::new(format!("R{i}"), 2);
            for j in 0..rows_per_rel {
                rel.push(vec![Value::from(j % 2), Value::from(j)]).unwrap();
            }
            db.add_relation(rel).unwrap();
        }
        Instance::new(star_query(k), db).unwrap()
    }

    #[test]
    fn already_binary_trees_are_untouched() {
        let r1 = Relation::from_rows("R1", &[&[1, 2]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[2, 3]]).unwrap();
        let inst =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
        let b = binarize(&inst).unwrap();
        assert_eq!(b.instance.query(), inst.query());
        assert!(b.tree.is_binary());
    }

    fn wide_instance() -> Instance {
        // A(x,y,z,w) joined with four unary children: every join tree makes A a node
        // with four children, so binarization must introduce copies of A.
        let mut db = Database::new();
        db.add_relation(Relation::from_rows("A", &[&[1, 2, 3, 4], &[1, 2, 3, 5]]).unwrap())
            .unwrap();
        for (name, vals) in [
            ("B", vec![1i64]),
            ("C", vec![2]),
            ("D", vec![3]),
            ("E", vec![4, 5]),
        ] {
            let rows: Vec<Vec<i64>> = vals.into_iter().map(|v| vec![v]).collect();
            let rows_ref: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            db.add_relation(Relation::from_rows(name, &rows_ref).unwrap())
                .unwrap();
        }
        let q = JoinQuery::new(vec![
            Atom::from_names("A", &["x", "y", "z", "w"]),
            Atom::from_names("B", &["x"]),
            Atom::from_names("C", &["y"]),
            Atom::from_names("D", &["z"]),
            Atom::from_names("E", &["w"]),
        ]);
        Instance::new(q, db).unwrap()
    }

    #[test]
    fn stars_binarize_consistently() {
        // GYO already produces a chain for star queries (all atoms share the centre),
        // so binarization may be a no-op; either way the result must be binary and
        // satisfy running intersection over all original variables.
        let inst = star_instance(5, 4);
        let b = binarize(&inst).unwrap();
        assert!(b.tree.is_binary());
        assert!(b.tree.satisfies_running_intersection(b.instance.query()));
        for v in inst.query().variables() {
            assert!(b.instance.query().contains_variable(&v));
        }
    }

    #[test]
    fn binarized_copies_hold_identical_data() {
        let inst = wide_instance();
        let b = binarize(&inst).unwrap();
        let copies: Vec<_> = b
            .instance
            .query()
            .atoms()
            .iter()
            .filter(|a| a.relation().contains("~bin"))
            .collect();
        assert!(!copies.is_empty());
        for atom in copies {
            let original = atom.relation().split('~').next().unwrap();
            let (copy, original) = (
                b.instance.relation(atom.relation()).unwrap(),
                b.instance.relation(original).unwrap(),
            );
            assert!(std::sync::Arc::ptr_eq(copy.base(), original.base()));
            assert_eq!(copy.len(), original.len());
            // Copies share all of the original atom's variables.
            assert_eq!(
                atom.variable_set(),
                b.instance.query().atom(0).variable_set()
            );
        }
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            db.add_relation(Relation::from_rows(name, &[&[1, 1]]).unwrap())
                .unwrap();
        }
        let inst = Instance::new(crate::query::triangle_query(), db).unwrap();
        assert!(matches!(
            binarize(&inst).unwrap_err(),
            QueryError::CyclicQuery(_)
        ));
    }

    #[test]
    fn three_children_need_no_copy_when_split_two_and_one() {
        // A node with exactly 3 children: the chain construction uses the original node
        // for child 1 and one copy carrying children 2 and 3... with our layout the last
        // child reuses the tail, so exactly one copy is introduced.
        let inst = star_instance(3, 2);
        let gyo = acyclicity::gyo_join_tree(inst.query()).unwrap();
        if gyo.is_binary() {
            // GYO may already produce a chain for the star (R1-R2-R3 all share x0); in
            // that case binarize is a no-op, which is also correct.
            let b = binarize(&inst).unwrap();
            assert_eq!(b.instance.query().num_atoms(), 3);
        } else {
            let b = binarize(&inst).unwrap();
            assert!(b.tree.is_binary());
            assert_eq!(b.instance.query().num_atoms(), 4);
        }
    }

    #[test]
    fn binarized_height_stays_linear_in_query_size() {
        let inst = wide_instance();
        let b = binarize(&inst).unwrap();
        assert!(b.tree.height() <= 2 * inst.query().num_atoms());
    }

    #[test]
    fn wide_node_gets_copies_and_stays_acyclic() {
        let inst = wide_instance();
        let b = binarize(&inst).unwrap();
        assert!(b.tree.is_binary());
        assert!(b.instance.query().num_atoms() >= 6);
        assert!(b.tree.satisfies_running_intersection(b.instance.query()));
        assert!(acyclicity::is_acyclic(b.instance.query()));
    }
}
