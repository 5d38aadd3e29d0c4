//! Error types for the quantile algorithms.

use qjoin_data::DataError;
use std::fmt;

/// Errors raised by the quantile-over-joins algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The requested quantile fraction is outside `[0, 1]`.
    InvalidPhi(f64),
    /// The approximation parameter is outside `(0, 1)`.
    InvalidEpsilon(f64),
    /// The sampler's failure probability is outside `(0, 1)`.
    InvalidDelta(f64),
    /// The query has no answers, so no quantile exists.
    NoAnswers,
    /// The query is cyclic; even answer existence is intractable (Section 2.3).
    CyclicQuery(String),
    /// Exact partial-SUM evaluation is intractable for this query/ranking combination
    /// under the 3SUM and Hyperclique hypotheses (the negative side of Theorem 5.6).
    /// The payload describes the witness; the ε-approximate algorithm still applies.
    IntractableSum(String),
    /// The ranking function is not supported by the requested algorithm.
    UnsupportedRanking(String),
    /// The trimming subroutine was invoked with a predicate shape it cannot handle
    /// (e.g. a vector bound passed to a scalar trimmer).
    UnsupportedPredicate(String),
    /// The query is too large for the exhaustive join-tree search used to find an
    /// adjacent cover of the weighted variables.
    QueryTooLarge {
        /// Number of atoms in the query.
        atoms: usize,
        /// Maximum supported by exhaustive search.
        limit: usize,
    },
    /// The instance, or a construction a solve builds from it, exceeds one of the
    /// execution layer's fixed-width limits (`u32` row, window and leaf indexing).
    /// The payload names the limit. A typed refusal: no other path serves the
    /// request.
    TooLarge(String),
    /// The approximate (sampling) path refuses this error/join regime: the
    /// requested guarantee would cost at least as much as solving exactly
    /// (e.g. the Hoeffding sample budget meets or exceeds the join size —
    /// the AQP-hardness regime of Liu & Wang). The payload is the witness;
    /// callers should downgrade to an exact or deterministic-ε solve.
    ApproxRefused(String),
    /// Two stages of a solve disagreed about something one derives from the other
    /// (a bug in this crate, reported in place of a panic).
    Internal(String),
    /// An execution-layer error.
    Exec(qjoin_exec::ExecError),
    /// A query-layer error.
    Query(qjoin_query::QueryError),
    /// A data-layer error.
    Data(qjoin_data::DataError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidPhi(phi) => write!(f, "quantile fraction {phi} is not in [0, 1]"),
            CoreError::InvalidEpsilon(eps) => {
                write!(f, "approximation parameter {eps} is not in (0, 1)")
            }
            CoreError::InvalidDelta(delta) => {
                write!(f, "failure probability {delta} is not in (0, 1)")
            }
            CoreError::NoAnswers => write!(f, "the query has no answers over this database"),
            CoreError::CyclicQuery(q) => write!(f, "query is cyclic: {q}"),
            CoreError::IntractableSum(witness) => write!(
                f,
                "exact SUM quantile is not quasilinear for this query (Theorem 5.6): {witness}; \
                 consider the ε-approximate algorithm"
            ),
            CoreError::UnsupportedRanking(msg) => write!(f, "unsupported ranking function: {msg}"),
            CoreError::UnsupportedPredicate(msg) => write!(f, "unsupported predicate: {msg}"),
            CoreError::QueryTooLarge { atoms, limit } => write!(
                f,
                "query has {atoms} atoms; exhaustive join-tree search supports at most {limit}"
            ),
            CoreError::TooLarge(limit) => write!(f, "instance too large: {limit}"),
            CoreError::ApproxRefused(witness) => {
                write!(f, "approximate solve refused: {witness}")
            }
            CoreError::Internal(msg) => write!(f, "internal solver error: {msg}"),
            CoreError::Exec(e) => write!(f, "execution error: {e}"),
            CoreError::Query(e) => write!(f, "query error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<qjoin_exec::ExecError> for CoreError {
    fn from(e: qjoin_exec::ExecError) -> Self {
        match e {
            qjoin_exec::ExecError::NoAnswers => CoreError::NoAnswers,
            qjoin_exec::ExecError::CyclicQuery(q) => CoreError::CyclicQuery(q),
            other => CoreError::Exec(other),
        }
    }
}

impl From<qjoin_query::QueryError> for CoreError {
    fn from(e: qjoin_query::QueryError) -> Self {
        match e {
            qjoin_query::QueryError::Data(e @ DataError::EncodingOverflow(_)) => e.into(),
            other => CoreError::Query(other),
        }
    }
}

/// A database the dictionary encoding cannot index is [`CoreError::TooLarge`].
impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        match e {
            DataError::EncodingOverflow(limit) => CoreError::TooLarge(limit),
            other => CoreError::Data(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(CoreError::InvalidPhi(1.5).to_string().contains("1.5"));
        assert!(CoreError::NoAnswers.to_string().contains("no answers"));
        assert!(CoreError::IntractableSum("3 independent variables".into())
            .to_string()
            .contains("Theorem 5.6"));
    }

    #[test]
    fn exec_no_answers_maps_to_core_no_answers() {
        let e: CoreError = qjoin_exec::ExecError::NoAnswers.into();
        assert_eq!(e, CoreError::NoAnswers);
        let c: CoreError = qjoin_exec::ExecError::CyclicQuery("Q".into()).into();
        assert!(matches!(c, CoreError::CyclicQuery(_)));
    }

    #[test]
    fn an_encoding_overflow_is_too_large_from_either_layer() {
        let overflow = DataError::EncodingOverflow("R has 2^32 tuples".into());
        let via_query: CoreError = qjoin_query::QueryError::Data(overflow.clone()).into();
        assert_eq!(via_query, CoreError::TooLarge("R has 2^32 tuples".into()));
        assert_eq!(CoreError::from(overflow), via_query);
        assert!(via_query.to_string().contains("2^32"));
    }
}
