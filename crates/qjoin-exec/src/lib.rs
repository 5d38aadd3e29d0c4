//! # qjoin-exec
//!
//! Execution engine for acyclic join queries: the substrate on which the quantile
//! algorithms of `qjoin-core` are built. It implements the classical machinery the
//! paper relies on:
//!
//! * [`JoinTreeContext`] — a rooted join tree with, per node, the materialized and
//!   *semi-join reduced* relation plus join-group indexes (the preprocessing step of
//!   the message-passing pattern, Section 2.4).
//! * [`count`] — linear-time counting of the answers to an acyclic JQ by bottom-up
//!   message passing (Example 2.1 / Figure 1 of the paper).
//! * [`yannakakis`] — full answer enumeration and materialization (used by the
//!   materialize-and-sort baseline).
//! * [`EncodedDirectAccess`] — a linear-preprocessing, logarithmic-access index into
//!   the (unordered) answer list, which also provides uniform sampling; this is the
//!   structure behind the randomized approximation of Section 3.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod answer;
mod context;
pub mod count;
mod direct_access;
pub mod encoded;
mod error;
pub mod yannakakis;

pub use answer::AnswerSet;
pub use context::{JoinTreeContext, NodeData};
pub use direct_access::EncodedDirectAccess;
pub use encoded::{EncodedContext, EncodedNode, Key};
pub use error::ExecError;

/// Convenient `Result` alias for executor operations.
pub type Result<T> = std::result::Result<T, ExecError>;
