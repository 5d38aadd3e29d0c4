//! # qjoin-ranking
//!
//! Ranking functions and the weight model of Section 2.2 of *"Efficient Computation of
//! Quantiles over Joins"* (PODS 2023).
//!
//! A ranking function is a pair `(w, ⪯)`: a weight function mapping query answers to a
//! weight domain, and a total order on that domain. This crate implements the
//! *aggregate* ranking functions the paper studies:
//!
//! * **SUM** — full or partial sums of per-variable weights,
//! * **MIN / MAX** — minimum or maximum of per-variable weights,
//! * **LEX** — lexicographic orders over a sequence of variables,
//!
//! together with:
//!
//! * per-variable input-weight functions `w_x : dom → ℝ` ([`WeightFn`]),
//! * the weight domain [`Weight`] and its total order, plus [`WeightBound`] which adds
//!   the `⊥` / `⊤` sentinels used by the quantile driver,
//! * the attribute-weight → tuple-weight conversion of Section 2.2
//!   ([`SumTupleWeights`]).
//!
//! All ranking functions implemented here are **subset-monotone** (Section 2.2), which
//! is the property the generic pivot-selection algorithm of Section 4 relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ranking;
mod tuple_weights;
mod weight;
mod weight_fn;

pub use ranking::{AggregateKind, Ranking};
pub use tuple_weights::SumTupleWeights;
pub use weight::{Weight, WeightBound};
pub use weight_fn::WeightFn;
