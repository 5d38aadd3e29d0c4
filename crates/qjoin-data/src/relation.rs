//! Relations: named, fixed-arity collections of tuples with shared storage.

use crate::{DataError, Result, Tuple, Value};
use std::fmt;
use std::sync::Arc;

/// A finite relation `R^D ⊆ dom^{a_R}`.
///
/// Relations carry a name (the relational symbol), a fixed arity, and their tuples.
/// The paper's trimming constructions materialize many derived relations (copies with
/// filtered tuples, extra columns, unions across partitions); all of those are plain
/// [`Relation`] instances, so downstream algorithms never need to distinguish
/// "original" from "synthesized" relations.
///
/// ## Copy-on-write storage
///
/// Tuple storage lives behind an [`Arc`], so cloning a relation — and by extension
/// cloning a [`Database`](crate::Database) — is a pointer bump, not a data copy.
/// [`Relation::renamed`] shares storage with the original, and [`Relation::filtered`]
/// shares it whenever the filter keeps every tuple. Mutating methods
/// ([`Relation::push_tuple`], [`Relation::dedup`], …) copy the storage first if (and
/// only if) it is currently shared. Sharing is observable through
/// [`Relation::shares_tuples_with`], which the row trim layer's sharing invariants
/// are tested against.
///
/// Duplicate tuples are permitted at this layer (a bag), but every construction in the
/// stack that relies on set semantics (counting, direct access) deduplicates or asserts
/// as needed; the generators in `qjoin-workload` always produce set-valued relations.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    name: Arc<str>,
    arity: usize,
    tuples: Arc<Vec<Tuple>>,
}

impl Relation {
    /// Creates an empty relation with the given name and arity.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation {
            name: name.into().into(),
            arity,
            tuples: Arc::new(Vec::new()),
        }
    }

    /// Creates a relation directly from tuples, validating that all arities agree.
    pub fn from_tuples(
        name: impl Into<String>,
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let mut rel = Relation::new(name, arity);
        for t in tuples {
            rel.push_tuple(t)?;
        }
        Ok(rel)
    }

    /// Convenience constructor from rows of integers (the common case in tests and
    /// in the paper's worked examples).
    pub fn from_rows(name: impl Into<String>, rows: &[&[i64]]) -> Result<Self> {
        let name = name.into();
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut rel = Relation::new(name, arity);
        for row in rows {
            rel.push_tuple(Tuple::from(row.to_vec()))?;
        }
        Ok(rel)
    }

    /// The relational symbol this relation interprets.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The arity `a_R`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Borrow all tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// True when both relations are backed by the *same* tuple storage (pointer
    /// equality on the shared allocation, not tuple-by-tuple comparison). This is the
    /// observable form of the copy-on-write guarantee: constructions that leave a
    /// relation untouched must return a relation for which this holds.
    pub fn shares_tuples_with(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.tuples, &other.tuples)
    }

    /// True when the tuple storage is referenced by at least one other relation (or
    /// database snapshot) — a global sharing probe for observability code that has no
    /// second relation at hand to compare against with
    /// [`Relation::shares_tuples_with`].
    pub fn is_storage_shared(&self) -> bool {
        Arc::strong_count(&self.tuples) > 1
    }

    /// Appends a row of values.
    pub fn push(&mut self, values: Vec<Value>) -> Result<()> {
        self.push_tuple(Tuple::new(values))
    }

    /// Appends a tuple, validating its arity. Copies the tuple storage first when it
    /// is shared with another relation (copy-on-write).
    pub fn push_tuple(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.arity() != self.arity {
            return Err(DataError::ArityMismatch {
                relation: self.name.to_string(),
                expected: self.arity,
                found: tuple.arity(),
            });
        }
        Arc::make_mut(&mut self.tuples).push(tuple);
        Ok(())
    }

    /// Returns a renamed view of this relation (used when eliminating self-joins by
    /// materializing a fresh relation per repeated symbol, Section 2.2). The returned
    /// relation shares this relation's tuple storage — renaming is O(1).
    pub fn renamed(&self, new_name: impl Into<String>) -> Relation {
        Relation {
            name: new_name.into().into(),
            arity: self.arity,
            tuples: Arc::clone(&self.tuples),
        }
    }

    /// Returns a copy keeping only tuples satisfying `keep`. If every tuple is kept,
    /// the result shares this relation's storage instead of copying it; tuples are
    /// only cloned once a rejected tuple proves a copy is needed.
    pub fn filtered(&self, mut keep: impl FnMut(&Tuple) -> bool) -> Relation {
        let mask: Vec<bool> = self.tuples.iter().map(&mut keep).collect();
        if mask.iter().all(|&k| k) {
            return self.clone();
        }
        let tuples: Vec<Tuple> = self
            .tuples
            .iter()
            .zip(&mask)
            .filter(|&(_, &kept)| kept)
            .map(|(t, _)| t.clone())
            .collect();
        Relation {
            name: Arc::clone(&self.name),
            arity: self.arity,
            tuples: Arc::new(tuples),
        }
    }

    /// Returns a copy in which every tuple has been mapped through `f`, with the arity
    /// adjusted to `new_arity` (all mapped tuples must have that arity).
    pub fn mapped(&self, new_arity: usize, mut f: impl FnMut(&Tuple) -> Tuple) -> Result<Relation> {
        let mut tuples = Vec::with_capacity(self.tuples.len());
        for t in self.tuples.iter() {
            let mapped = f(t);
            if mapped.arity() != new_arity {
                return Err(DataError::ArityMismatch {
                    relation: self.name.to_string(),
                    expected: new_arity,
                    found: mapped.arity(),
                });
            }
            tuples.push(mapped);
        }
        Ok(Relation {
            name: Arc::clone(&self.name),
            arity: new_arity,
            tuples: Arc::new(tuples),
        })
    }

    /// Returns a copy where every tuple is extended with a constant extra column
    /// (the shape of the paper's tagging constructions: partition identifiers,
    /// dyadic-interval identifiers, sketch buckets).
    pub fn with_constant_column(&self, value: Value) -> Relation {
        let mut tuples = Vec::with_capacity(self.tuples.len());
        tuples.extend(self.tuples.iter().map(|t| t.extended(value.clone())));
        Relation {
            name: Arc::clone(&self.name),
            arity: self.arity + 1,
            tuples: Arc::new(tuples),
        }
    }

    /// Removes duplicate tuples in place, preserving first occurrence order.
    ///
    /// Deduplication hashes tuples *by reference*: when the relation is already
    /// duplicate-free this is a read-only pass that leaves shared storage untouched,
    /// and when duplicates exist the retained tuples are moved (not cloned) unless the
    /// storage is shared with another relation (copy-on-write).
    pub fn dedup(&mut self) {
        let mut seen = std::collections::HashSet::with_capacity(self.tuples.len());
        let keep: Vec<bool> = self.tuples.iter().map(|t| seen.insert(t)).collect();
        drop(seen);
        if keep.iter().all(|&k| k) {
            return;
        }
        let tuples = Arc::make_mut(&mut self.tuples);
        let mut index = 0;
        tuples.retain(|_| {
            let kept = keep[index];
            index += 1;
            kept
        });
    }

    /// Replaces the stored tuples wholesale (arity is re-validated).
    pub fn set_tuples(&mut self, tuples: Vec<Tuple>) -> Result<()> {
        for t in &tuples {
            if t.arity() != self.arity {
                return Err(DataError::ArityMismatch {
                    relation: self.name.to_string(),
                    expected: self.arity,
                    found: t.arity(),
                });
            }
        }
        self.tuples = Arc::new(tuples);
        Ok(())
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}/{} ({} tuples)",
            self.name,
            self.arity,
            self.tuples.len()
        )?;
        for t in self.tuples.iter().take(20) {
            writeln!(f, "  {t:?}")?;
        }
        if self.tuples.len() > 20 {
            writeln!(f, "  ... ({} more)", self.tuples.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_arity() {
        let mut r = Relation::new("R", 2);
        assert!(r.push(vec![Value::from(1), Value::from(2)]).is_ok());
        let err = r.push(vec![Value::from(1)]).unwrap_err();
        match err {
            DataError::ArityMismatch {
                expected, found, ..
            } => {
                assert_eq!(expected, 2);
                assert_eq!(found, 1);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn from_rows_builds_integer_relation() {
        let r = Relation::from_rows("S", &[&[1, 3], &[1, 4], &[2, 3]]).unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.tuples()[1], Tuple::from(vec![1i64, 4]));
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let err = Relation::from_rows("S", &[&[1, 3], &[1]]).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { .. }));
    }

    #[test]
    fn renamed_shares_tuples_under_new_symbol() {
        let r = Relation::from_rows("R", &[&[1, 2]]).unwrap();
        let r2 = r.renamed("R_copy1");
        assert_eq!(r2.name(), "R_copy1");
        assert_eq!(r2.tuples(), r.tuples());
        assert!(r2.shares_tuples_with(&r), "renaming must not copy tuples");
    }

    #[test]
    fn clones_share_storage_until_mutated() {
        let r = Relation::from_rows("R", &[&[1], &[2]]).unwrap();
        let mut copy = r.clone();
        assert!(copy.shares_tuples_with(&r));
        assert!(r.is_storage_shared());
        copy.push(vec![Value::from(3)]).unwrap();
        assert!(!copy.shares_tuples_with(&r), "mutation must unshare");
        assert_eq!(r.len(), 2, "original is untouched by the mutation");
        assert_eq!(copy.len(), 3);
    }

    #[test]
    fn filtered_keeps_matching_tuples() {
        let r = Relation::from_rows("R", &[&[1], &[2], &[3], &[4]]).unwrap();
        let even = r.filtered(|t| t[0].as_int().unwrap() % 2 == 0);
        assert_eq!(even.len(), 2);
        assert!(even.iter().all(|t| t[0].as_int().unwrap() % 2 == 0));
        assert!(!even.shares_tuples_with(&r));
    }

    #[test]
    fn filtered_keeping_everything_shares_storage() {
        let r = Relation::from_rows("R", &[&[1], &[2]]).unwrap();
        let all = r.filtered(|_| true);
        assert!(all.shares_tuples_with(&r));
    }

    #[test]
    fn with_constant_column_extends_every_tuple() {
        let r = Relation::from_rows("R", &[&[1], &[2]]).unwrap();
        let ext = r.with_constant_column(Value::from(7));
        assert_eq!(ext.arity(), 2);
        assert!(ext.iter().all(|t| t[1] == Value::from(7)));
    }

    #[test]
    fn dedup_removes_repeated_tuples() {
        let mut r = Relation::from_rows("R", &[&[1, 2], &[1, 2], &[3, 4]]).unwrap();
        r.dedup();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn dedup_of_duplicate_free_relation_keeps_sharing() {
        let mut r = Relation::from_rows("R", &[&[1, 2], &[3, 4]]).unwrap();
        let original = r.clone();
        r.dedup();
        assert!(r.shares_tuples_with(&original));
    }

    #[test]
    fn dedup_unshares_when_duplicates_exist() {
        let mut r = Relation::from_rows("R", &[&[1], &[1], &[2]]).unwrap();
        let original = r.clone();
        r.dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(original.len(), 3, "shared snapshot must survive the dedup");
        assert!(!r.shares_tuples_with(&original));
    }

    #[test]
    fn mapped_can_change_arity() {
        let r = Relation::from_rows("R", &[&[1, 2], &[3, 4]]).unwrap();
        let swapped = r.mapped(2, |t| t.project(&[1, 0])).unwrap();
        assert_eq!(swapped.tuples()[0], Tuple::from(vec![2i64, 1]));
        let first = r.mapped(1, |t| t.project(&[0])).unwrap();
        assert_eq!(first.arity(), 1);
    }

    #[test]
    fn empty_relation_reports_empty() {
        let r = Relation::new("E", 3);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
