//! Instances: a join query paired with a database.

use crate::{JoinQuery, QueryError, Result, Variable};
use qjoin_data::{Database, Relation};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A query evaluation instance: a [`JoinQuery`] together with a shared [`Database`].
///
/// Everything the quantile algorithms manipulate — the original input, the partitions
/// produced by trimming, the restricted instances searched in later iterations — is an
/// [`Instance`]. The pair is validated on construction: every atom must reference an
/// existing relation of matching arity.
///
/// The database is held behind an [`Arc`], so instances built over one
/// `Arc<Database>` reference a single copy of the relation data. [`Instance::new`]
/// accepts either an owned [`Database`] or an existing `Arc<Database>`;
/// [`Instance::shared_database`] exposes the handle for further sharing and for
/// pointer-equality assertions.
#[derive(Clone, PartialEq)]
pub struct Instance {
    query: JoinQuery,
    database: Arc<Database>,
}

impl Instance {
    /// Creates and validates an instance.
    pub fn new(query: JoinQuery, database: impl Into<Arc<Database>>) -> Result<Self> {
        let database = database.into();
        if query.num_atoms() == 0 {
            return Err(QueryError::EmptyQuery);
        }
        for atom in query.atoms() {
            let rel = database
                .relation(atom.relation())
                .map_err(|_| QueryError::MissingRelation(atom.relation().to_string()))?;
            if rel.arity() != atom.arity() {
                return Err(QueryError::AtomArityMismatch {
                    relation: atom.relation().to_string(),
                    atom_arity: atom.arity(),
                    relation_arity: rel.arity(),
                });
            }
        }
        Ok(Instance { query, database })
    }

    /// The query.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The database.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The shared database handle. Cloning the returned `Arc` (or passing it to
    /// [`Instance::new`]) shares the relation data without copying it.
    pub fn shared_database(&self) -> &Arc<Database> {
        &self.database
    }

    /// Decomposes the instance into its parts. If the database is shared with other
    /// instances, the returned value is a cheap handle-level copy of it.
    pub fn into_parts(self) -> (JoinQuery, Database) {
        let database = Arc::try_unwrap(self.database).unwrap_or_else(|shared| (*shared).clone());
        (self.query, database)
    }

    /// The database size `n` (total tuples).
    pub fn database_size(&self) -> usize {
        self.database.total_tuples()
    }

    /// The relation interpreting the atom at `atom_index`.
    pub fn relation_of_atom(&self, atom_index: usize) -> &Relation {
        self.database
            .relation(self.query.atom(atom_index).relation())
            .expect("validated at construction")
    }

    /// True if the query is acyclic.
    pub fn is_acyclic(&self) -> bool {
        crate::acyclicity::is_acyclic(&self.query)
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Instance: {}", self.query)?;
        write!(f, "{:?}", self.database)
    }
}

/// A query answer: an assignment from the query's variables to domain values.
///
/// Answers returned to callers use this explicit (and self-describing) representation.
/// Bulk intermediate results inside the executor use the positional
/// `qjoin_exec::AnswerSet` representation instead.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Assignment {
    bindings: BTreeMap<Variable, qjoin_data::Value>,
}

impl Assignment {
    /// The empty assignment.
    pub fn empty() -> Self {
        Assignment {
            bindings: BTreeMap::new(),
        }
    }

    /// Creates an assignment from (variable, value) pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Variable, qjoin_data::Value)>) -> Self {
        Assignment {
            bindings: pairs.into_iter().collect(),
        }
    }

    /// The value assigned to `var`, if any.
    pub fn get(&self, var: &Variable) -> Option<&qjoin_data::Value> {
        self.bindings.get(var)
    }

    /// Binds `var` to `value`, returning the previous value if it was bound.
    pub fn bind(&mut self, var: Variable, value: qjoin_data::Value) -> Option<qjoin_data::Value> {
        self.bindings.insert(var, value)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterates over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Variable, &qjoin_data::Value)> {
        self.bindings.iter()
    }

    /// True if the two assignments agree on every variable bound in both.
    pub fn consistent_with(&self, other: &Assignment) -> bool {
        self.bindings
            .iter()
            .all(|(v, val)| other.get(v).is_none_or(|o| o == val))
    }

    /// The union of two consistent assignments. Returns `None` if they conflict.
    pub fn union(&self, other: &Assignment) -> Option<Assignment> {
        if !self.consistent_with(other) {
            return None;
        }
        let mut bindings = self.bindings.clone();
        bindings.extend(other.bindings.iter().map(|(v, x)| (v.clone(), x.clone())));
        Some(Assignment { bindings })
    }

    /// The restriction of the assignment to the given variables (missing variables are
    /// silently dropped). Used to map answers of trimmed instances back to answers of
    /// the original query.
    pub fn project(&self, vars: &[Variable]) -> Assignment {
        Assignment {
            bindings: vars
                .iter()
                .filter_map(|v| self.bindings.get(v).map(|x| (v.clone(), x.clone())))
                .collect(),
        }
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, x)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}: {x}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::path_query;
    use qjoin_data::{Relation, Value};

    fn two_path_instance() -> Instance {
        let r1 = Relation::from_rows("R1", &[&[1, 1], &[2, 2]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 10], &[2, 20]]).unwrap();
        Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap()
    }

    #[test]
    fn validation_catches_missing_relation() {
        let db = Database::new();
        let err = Instance::new(path_query(2), db).unwrap_err();
        assert!(matches!(err, QueryError::MissingRelation(_)));
    }

    #[test]
    fn validation_catches_arity_mismatch() {
        let r1 = Relation::from_rows("R1", &[&[1, 1, 1]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 10]]).unwrap();
        let err =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap_err();
        assert!(matches!(err, QueryError::AtomArityMismatch { .. }));
    }

    #[test]
    fn validation_rejects_empty_query() {
        let err = Instance::new(JoinQuery::new(vec![]), Database::new()).unwrap_err();
        assert_eq!(err, QueryError::EmptyQuery);
    }

    #[test]
    fn accessors_work() {
        let inst = two_path_instance();
        assert_eq!(inst.database_size(), 4);
        assert!(inst.is_acyclic());
        assert_eq!(inst.relation_of_atom(1).name(), "R2");
    }

    #[test]
    fn assignment_union_and_conflicts() {
        let a = Assignment::from_pairs([(Variable::new("x"), Value::from(1))]);
        let b = Assignment::from_pairs([(Variable::new("y"), Value::from(2))]);
        let c = Assignment::from_pairs([(Variable::new("x"), Value::from(9))]);
        let ab = a.union(&b).unwrap();
        assert_eq!(ab.len(), 2);
        assert!(a.union(&c).is_none());
        assert!(a.consistent_with(&b));
        assert!(!a.consistent_with(&c));
    }

    #[test]
    fn assignment_projection_drops_unbound() {
        let a = Assignment::from_pairs([
            (Variable::new("x"), Value::from(1)),
            (Variable::new("p"), Value::from(7)),
        ]);
        let proj = a.project(&[Variable::new("x"), Variable::new("z")]);
        assert_eq!(proj.len(), 1);
        assert_eq!(proj.get(&Variable::new("x")), Some(&Value::from(1)));
    }

    #[test]
    fn assignment_bind_and_debug() {
        let mut a = Assignment::empty();
        assert!(a.is_empty());
        assert_eq!(a.bind(Variable::new("x"), Value::from(1)), None);
        assert_eq!(
            a.bind(Variable::new("x"), Value::from(2)),
            Some(Value::from(1))
        );
        assert_eq!(format!("{a:?}"), "{x: 2}");
    }
}
