//! Error types for the engine layer.

use crate::request::ErrorClass;
use qjoin_core::CoreError;
use std::fmt;

/// Errors raised by the quantile-query engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// No database with this name exists in the catalog.
    UnknownDatabase(String),
    /// A database with this name already exists (use `replace_database` to swap it).
    DuplicateDatabase(String),
    /// No plan with this name is registered.
    UnknownPlan(String),
    /// A plan with this name is already registered.
    DuplicatePlan(String),
    /// The plan's strategy cannot serve the request as asked (e.g. an exact quantile
    /// on an intractable SUM plan, or an approximate quantile on a non-SUM plan).
    PlanCannotServe {
        /// The plan name.
        plan: String,
        /// Why the request cannot be served, and what to do instead.
        reason: String,
    },
    /// The plan's answer count cannot be bounded below `2^128`: the product of its
    /// atoms' relation sizes overflows `u128`, so the counting pass could too.
    TooLarge {
        /// The plan name.
        plan: String,
    },
    /// An algorithmic error from `qjoin-core`.
    Core(CoreError),
}

impl EngineError {
    /// The class of reply this error is. The layer errors say that a plan's query
    /// does not fit its database (a `replace` with another workload): refusals.
    pub fn class(&self) -> ErrorClass {
        use ErrorClass as C;
        match self {
            EngineError::UnknownDatabase(_) | EngineError::UnknownPlan(_) => C::Unknown,
            EngineError::DuplicateDatabase(_) | EngineError::DuplicatePlan(_) => C::Refused,
            EngineError::PlanCannotServe { .. } => C::Refused,
            EngineError::TooLarge { .. } => C::TooLarge,
            EngineError::Core(e) => match e {
                CoreError::InvalidPhi(_) | CoreError::InvalidEpsilon(_) => C::Usage,
                CoreError::InvalidDelta(_) => C::Usage,
                CoreError::NoAnswers | CoreError::CyclicQuery(_) => C::Refused,
                CoreError::IntractableSum(_) | CoreError::ApproxRefused(_) => C::Refused,
                CoreError::UnsupportedRanking(_) => C::Refused,
                CoreError::Exec(_) | CoreError::Query(_) | CoreError::Data(_) => C::Refused,
                CoreError::QueryTooLarge { .. } | CoreError::TooLarge(_) => C::TooLarge,
                CoreError::UnsupportedPredicate(_) | CoreError::Internal(_) => C::Internal,
            },
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDatabase(name) => {
                write!(f, "no database named {name:?} in the catalog")
            }
            EngineError::DuplicateDatabase(name) => write!(
                f,
                "a database named {name:?} already exists; use replace_database to swap it"
            ),
            EngineError::UnknownPlan(name) => write!(f, "no plan named {name:?} is registered"),
            EngineError::DuplicatePlan(name) => {
                write!(f, "a plan named {name:?} is already registered")
            }
            EngineError::PlanCannotServe { plan, reason } => {
                write!(f, "plan {plan:?} cannot serve this request: {reason}")
            }
            EngineError::TooLarge { plan } => write!(
                f,
                "plan {plan:?} is too large: the product of its relation sizes exceeds \
                 2^128, so its answers cannot be counted"
            ),
            EngineError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<qjoin_exec::ExecError> for EngineError {
    fn from(e: qjoin_exec::ExecError) -> Self {
        EngineError::Core(CoreError::from(e))
    }
}

impl From<qjoin_query::QueryError> for EngineError {
    fn from(e: qjoin_query::QueryError) -> Self {
        EngineError::Core(CoreError::from(e))
    }
}

impl From<qjoin_data::DataError> for EngineError {
    fn from(e: qjoin_data::DataError) -> Self {
        EngineError::Core(CoreError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offender() {
        assert!(EngineError::UnknownDatabase("social".into())
            .to_string()
            .contains("social"));
        assert!(EngineError::DuplicatePlan("p".into())
            .to_string()
            .contains("already registered"));
        let e = EngineError::PlanCannotServe {
            plan: "p".into(),
            reason: "intractable".into(),
        };
        assert!(e.to_string().contains("intractable"));
    }

    #[test]
    fn core_errors_convert() {
        let e: EngineError = CoreError::NoAnswers.into();
        assert_eq!(e, EngineError::Core(CoreError::NoAnswers));
        // What `create_database` / `replace_database` return for a database the
        // dictionary encoding cannot index.
        let overflow = qjoin_data::DataError::EncodingOverflow("u32 rows".into());
        let e: EngineError = overflow.into();
        assert_eq!(e, EngineError::Core(CoreError::TooLarge("u32 rows".into())));
    }
}
