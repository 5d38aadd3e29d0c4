//! # quantile-joins
//!
//! A faithful, from-scratch Rust implementation of *"Efficient Computation of
//! Quantiles over Joins"* (Tziavelis, Carmeli, Gatterbauer, Kimelfeld, Riedewald —
//! PODS 2023): compute the answer at relative position φ of a join query's ordered
//! answer list **without materializing the join**, in time quasilinear in the database.
//!
//! This facade crate re-exports the workspace's layers:
//!
//! * [`data`] — values, tuples, relations, databases;
//! * [`query`] — join queries, hypergraphs, acyclicity, join trees;
//! * [`exec`] — Yannakakis evaluation, message passing, counting, direct access;
//! * [`ranking`] — SUM / MIN / MAX / LEX ranking functions and predicates;
//! * [`core`] — the pivoting framework, exact and lossy trimmings, the partial-SUM
//!   dichotomy, deterministic and randomized approximations, batched multi-φ solving,
//!   and baselines;
//! * [`engine`] — the persistent, thread-safe quantile-query engine: a catalog of
//!   named databases, compile-once prepared plans, a sharded LRU result cache, and
//!   the CLI command language;
//! * [`server`] — the concurrent TCP serving layer: line protocol, bounded worker
//!   pool, blocking client, and the `qjoin` binary's `serve`/`client` subcommands;
//! * [`telemetry`] — the observability substrate: lock-free log-bucketed latency
//!   histograms, a named-metric registry, and Prometheus/JSON exposition;
//! * [`workload`] — synthetic instance generators used by the examples, tests, and
//!   benchmarks.
//!
//! The most convenient entry points are re-exported at the top level and in
//! [`prelude`]:
//!
//! ```
//! use quantile_joins::prelude::*;
//!
//! // Median of l2 + l3 over the paper's social-network join.
//! let config = SocialConfig { rows_per_relation: 300, ..Default::default() };
//! let instance = config.generate();
//! let ranking = config.likes_ranking();
//! let median = exact_quantile(&instance, &ranking, 0.5).unwrap();
//! assert!(median.total_answers > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qjoin_core as core;
pub use qjoin_data as data;
pub use qjoin_engine as engine;
pub use qjoin_exec as exec;
pub use qjoin_par as par;
pub use qjoin_query as query;
pub use qjoin_ranking as ranking;
pub use qjoin_server as server;
pub use qjoin_telemetry as telemetry;
pub use qjoin_workload as workload;

pub use qjoin_core::solver::{
    approximate_sum_quantile, exact_quantile, exact_quantile_batch, ErrorBudget,
};
pub use qjoin_core::{CoreError, PivotingOptions, QuantileResult};
pub use qjoin_engine::{Engine, EngineError};
pub use qjoin_query::Instance;
pub use qjoin_ranking::Ranking;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use qjoin_core::baseline::{quantile_by_materialization, BaselineStrategy};
    pub use qjoin_core::batch::quantile_batch_by_pivoting;
    pub use qjoin_core::dichotomy::{classify_partial_sum, SumClassification};
    pub use qjoin_core::lossy_trim::LossySumTrimmer;
    pub use qjoin_core::quantile::{quantile_by_pivoting, target_rank, PivotingOptions};
    pub use qjoin_core::sampling::{
        quantile_by_sampling, quantile_by_sampling_batch, SamplingOptions,
    };
    pub use qjoin_core::sketch::{sketch, RoundDirection, SketchBucket, SketchEntry};
    pub use qjoin_core::solver::{
        approximate_sum_quantile, exact_quantile, exact_quantile_batch, ErrorBudget,
    };
    pub use qjoin_core::trim::{AdjacentSumTrimmer, LexTrimmer, MinMaxTrimmer, Trimmer};
    pub use qjoin_core::QuantileResult;
    pub use qjoin_data::{Database, EncodedDatabase, Relation, Tuple, Value};
    pub use qjoin_engine::{
        Accuracy, Engine, EngineAnswer, EngineConfig, EngineError, EngineStats, PlanStorageStats,
        PlanStrategy, PreparedPlan,
    };
    pub use qjoin_exec::count::count_answers;
    pub use qjoin_query::query::{path_query, social_network_query, star_query};
    pub use qjoin_query::variable::vars;
    pub use qjoin_query::{Atom, EncodedInstance, Instance, JoinQuery, Variable};
    pub use qjoin_ranking::{AggregateKind, Ranking, Weight, WeightFn};
    pub use qjoin_server::{Client, Server, ServerConfig};
    pub use qjoin_workload::path::PathConfig;
    pub use qjoin_workload::social::SocialConfig;
    pub use qjoin_workload::star::StarConfig;
    pub use qjoin_workload::star_schema::StarSchemaConfig;
}
