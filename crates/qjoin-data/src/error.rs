//! Error types for the data layer.

use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A tuple's arity does not match its relation's arity.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Declared relation arity.
        expected: usize,
        /// Arity of the offending tuple.
        found: usize,
    },
    /// A relation with this name already exists in the database.
    DuplicateRelation(String),
    /// A relation with this name does not exist in the database.
    UnknownRelation(String),
    /// The database cannot be represented in encoded (dictionary-coded) form: a
    /// relation exceeds the encoded layer's `u32` row indexing. The payload names
    /// the limit.
    EncodingOverflow(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch in relation {relation}: expected {expected}, found {found}"
            ),
            DataError::DuplicateRelation(name) => {
                write!(f, "relation {name} already exists in the database")
            }
            DataError::UnknownRelation(name) => {
                write!(f, "relation {name} does not exist in the database")
            }
            DataError::EncodingOverflow(msg) => {
                write!(f, "database cannot be dictionary-encoded: {msg}")
            }
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_relation_names() {
        let e = DataError::ArityMismatch {
            relation: "R".into(),
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("R"));
        assert!(e.to_string().contains("expected 2"));
        assert!(DataError::DuplicateRelation("S".into())
            .to_string()
            .contains("S"));
        assert!(DataError::UnknownRelation("T".into())
            .to_string()
            .contains("T"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&DataError::UnknownRelation("X".into()));
    }
}
