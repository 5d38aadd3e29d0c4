//! Tuples: fixed-arity sequences of values.

use crate::Value;
use std::fmt;
use std::ops::Index;

/// A database tuple, i.e. an element of `dom^a` for a relation of arity `a`.
///
/// Tuples are positional; the mapping from positions to query variables is supplied by
/// the atom that references the relation (see `qjoin-query`). The trimming
/// constructions of the paper frequently *extend* tuples with fresh columns (partition
/// identifiers, dyadic-interval identifiers, sketch buckets), which is supported by
/// [`Tuple::extended`].
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The empty (zero-arity) tuple, used for the artificial join-tree root `t_0 = ()`
    /// described in Section 2.4 of the paper.
    pub fn empty() -> Self {
        Tuple { values: Vec::new() }
    }

    /// Number of values (the arity of the tuple).
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at `pos`, or `None` if out of bounds.
    pub fn get(&self, pos: usize) -> Option<&Value> {
        self.values.get(pos)
    }

    /// Borrow all values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Returns a new tuple with `extra` appended at the end.
    pub fn extended(&self, extra: Value) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + 1);
        values.extend_from_slice(&self.values);
        values.push(extra);
        Tuple { values }
    }

    /// Returns the projection of this tuple onto the given positions, in that order.
    ///
    /// Used to compute join keys (the values of the variables shared with a parent
    /// join-tree node) and to strip synthesized columns when mapping answers of a
    /// trimmed instance back to answers of the original query.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple {
            values: positions.iter().map(|&p| self.values[p].clone()).collect(),
        }
    }

    /// Consumes the tuple and returns its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl Index<usize> for Tuple {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        &self.values[index]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl From<Vec<i64>> for Tuple {
    fn from(values: Vec<i64>) -> Self {
        Tuple::new(values.into_iter().map(Value::Int).collect())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::from(vals.to_vec())
    }

    #[test]
    fn arity_and_indexing() {
        let tup = t(&[1, 2, 3]);
        assert_eq!(tup.arity(), 3);
        assert_eq!(tup[0], Value::from(1));
        assert_eq!(tup.get(2), Some(&Value::from(3)));
        assert_eq!(tup.get(3), None);
    }

    #[test]
    fn empty_tuple_has_zero_arity() {
        assert_eq!(Tuple::empty().arity(), 0);
        assert_eq!(Tuple::empty(), Tuple::new(vec![]));
    }

    #[test]
    fn extended_appends_without_mutating_original() {
        let tup = t(&[1, 2]);
        let ext = tup.extended(Value::from(9));
        assert_eq!(tup.arity(), 2);
        assert_eq!(ext.arity(), 3);
        assert_eq!(ext[2], Value::from(9));
        assert_eq!(&ext.values()[..2], tup.values());
    }

    #[test]
    fn project_selects_and_reorders() {
        let tup = t(&[10, 20, 30, 40]);
        let proj = tup.project(&[3, 1]);
        assert_eq!(proj, t(&[40, 20]));
    }

    #[test]
    fn project_empty_positions_gives_empty_tuple() {
        assert_eq!(t(&[1, 2]).project(&[]), Tuple::empty());
    }

    #[test]
    fn tuples_compare_lexicographically() {
        assert!(t(&[1, 2]) < t(&[1, 3]));
        assert!(t(&[1, 2]) < t(&[2, 0]));
        assert!(t(&[1]) < t(&[1, 0]));
    }

    #[test]
    fn from_iterator_collects_values() {
        let tup: Tuple = (0..3).map(Value::from).collect();
        assert_eq!(tup, t(&[0, 1, 2]));
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", t(&[1, 2])), "(1, 2)");
    }
}
