//! Join queries (full conjunctive queries).

use crate::{Atom, Hypergraph, Variable};
use std::collections::BTreeSet;
use std::fmt;

/// A Join Query (JQ) `Q = R_1(X_1), ..., R_ℓ(X_ℓ)`.
///
/// A JQ is a *full* conjunctive query: every variable is an output variable. A query
/// answer is a homomorphism from the query to the database, represented downstream as
/// an assignment from [`Variable`]s to values.
///
/// The number of atoms `ℓ` is treated as a constant by the complexity analysis (data
/// complexity); the library supports arbitrary `ℓ`, but the join-tree enumeration used
/// to find adjacent covers of the weighted variables is exhaustive and limited to small
/// queries (see [`crate::join_tree::enumerate_join_trees`]).
#[derive(Clone, PartialEq, Eq)]
pub struct JoinQuery {
    atoms: Vec<Atom>,
}

impl JoinQuery {
    /// Creates a query from its atoms.
    pub fn new(atoms: Vec<Atom>) -> Self {
        JoinQuery { atoms }
    }

    /// The atoms of the query.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms `ℓ`.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The atom at the given index.
    pub fn atom(&self, idx: usize) -> &Atom {
        &self.atoms[idx]
    }

    /// The variables of the query `var(Q)`, in first-occurrence order.
    ///
    /// This order is the canonical answer schema used by `qjoin-exec` when
    /// materializing answers.
    pub fn variables(&self) -> Vec<Variable> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for atom in &self.atoms {
            for v in atom.variables() {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// The variables as a set.
    pub fn variable_set(&self) -> BTreeSet<Variable> {
        self.atoms
            .iter()
            .flat_map(|a| a.variables().iter().cloned())
            .collect()
    }

    /// True if the query mentions the variable.
    pub fn contains_variable(&self, var: &Variable) -> bool {
        self.atoms.iter().any(|a| a.contains(var))
    }

    /// True if some relational symbol occurs in more than one atom (a self-join).
    pub fn has_self_joins(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.atoms
            .iter()
            .any(|a| !seen.insert(a.relation().to_string()))
    }

    /// The query hypergraph `H(Q)`: one vertex per variable, one hyperedge per atom.
    pub fn hypergraph(&self) -> Hypergraph {
        Hypergraph::new(
            self.variable_set(),
            self.atoms.iter().map(|a| a.variable_set()).collect(),
        )
    }

    /// Indices of atoms containing the given variable.
    pub fn atoms_containing(&self, var: &Variable) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.contains(var))
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Debug for JoinQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl fmt::Display for JoinQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Builds the k-path query `R_1(x_1, x_2), R_2(x_2, x_3), ..., R_k(x_k, x_{k+1})`.
///
/// Path queries are the canonical examples in the paper: the 2-path (binary join) is
/// tractable for full SUM, while the 3-path is the prototypical intractable case for
/// full SUM and the prototypical *tractable* case for the partial SUM over
/// `{x_1, x_2, x_3}` (Section 5.3).
pub fn path_query(k: usize) -> JoinQuery {
    let atoms = (1..=k)
        .map(|i| {
            Atom::new(
                format!("R{i}"),
                vec![
                    Variable::new(format!("x{i}")),
                    Variable::new(format!("x{}", i + 1)),
                ],
            )
        })
        .collect();
    JoinQuery::new(atoms)
}

/// Builds the k-star query `R_1(x_0, x_1), R_2(x_0, x_2), ..., R_k(x_0, x_k)`:
/// `k` relations sharing a central join variable `x_0`.
pub fn star_query(k: usize) -> JoinQuery {
    let atoms = (1..=k)
        .map(|i| {
            Atom::new(
                format!("R{i}"),
                vec![Variable::new("x0"), Variable::new(format!("x{i}"))],
            )
        })
        .collect();
    JoinQuery::new(atoms)
}

/// Builds the triangle query `R(x, y), S(y, z), T(z, x)` — the smallest cyclic JQ,
/// used as a negative example for the dichotomy (cyclic queries are intractable even
/// for answer-existence under the Hyperclique hypothesis).
pub fn triangle_query() -> JoinQuery {
    JoinQuery::new(vec![
        Atom::from_names("R", &["x", "y"]),
        Atom::from_names("S", &["y", "z"]),
        Atom::from_names("T", &["z", "x"]),
    ])
}

/// Builds the social-network query of the paper's introduction:
/// `Admin(u1, e), Share(u2, e, l2), Attend(u3, e, l3)`.
pub fn social_network_query() -> JoinQuery {
    JoinQuery::new(vec![
        Atom::from_names("Admin", &["u1", "e"]),
        Atom::from_names("Share", &["u2", "e", "l2"]),
        Atom::from_names("Attend", &["u3", "e", "l3"]),
    ])
}

/// Builds the 4-atom query of Figure 1 of the paper:
/// `R(x1, x2), S(x1, x3), T(x2, x4), U(x4, x5)`.
pub fn figure1_query() -> JoinQuery {
    JoinQuery::new(vec![
        Atom::from_names("R", &["x1", "x2"]),
        Atom::from_names("S", &["x1", "x3"]),
        Atom::from_names("T", &["x2", "x4"]),
        Atom::from_names("U", &["x4", "x5"]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variables_in_first_occurrence_order() {
        let q = path_query(3);
        let variables = q.variables();
        let names: Vec<&str> = variables.iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["x1", "x2", "x3", "x4"]);
    }

    #[test]
    fn path_query_structure() {
        let q = path_query(2);
        assert_eq!(q.num_atoms(), 2);
        assert_eq!(q.atom(0).to_string(), "R1(x1, x2)");
        assert_eq!(q.atom(1).to_string(), "R2(x2, x3)");
    }

    #[test]
    fn star_query_shares_center() {
        let q = star_query(3);
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.atoms_containing(&Variable::new("x0")).len(), 3);
        assert_eq!(q.atoms_containing(&Variable::new("x2")), vec![1]);
    }

    #[test]
    fn self_join_detection() {
        let q = JoinQuery::new(vec![
            Atom::from_names("R", &["x", "y"]),
            Atom::from_names("R", &["y", "z"]),
        ]);
        assert!(q.has_self_joins());
        assert!(!path_query(3).has_self_joins());
    }

    #[test]
    fn figure1_query_matches_paper() {
        let q = figure1_query();
        assert_eq!(q.to_string(), "R(x1, x2), S(x1, x3), T(x2, x4), U(x4, x5)");
        assert_eq!(q.variables().len(), 5);
    }

    #[test]
    fn hypergraph_has_one_edge_per_atom() {
        let q = social_network_query();
        let h = q.hypergraph();
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.num_vertices(), 6);
    }
}
