//! # qjoin-bench
//!
//! The paper's experiments: criterion benches in `benches/` and table-printing
//! experiment binaries in `src/bin/` (`exp_dichotomy`, `exp_pivot_quality`,
//! `exp_approx_sum`). The system's benchmark is `perfbench/`, its own workspace.
//!
//! The helpers here are shared between the two: wall-clock measurement, rank-error
//! measurement against the brute-force ground truth, and the standard workload
//! configurations used across experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qjoin_core::quantile::rank_of_weight;
use qjoin_core::QuantileResult;
use qjoin_query::Instance;
use qjoin_ranking::Ranking;
use qjoin_workload::path::PathConfig;
use qjoin_workload::social::SocialConfig;
use std::time::{Duration, Instant};

/// Runs a closure once and returns its result together with the elapsed wall-clock
/// time. The experiment binaries report single-shot times (Criterion handles the
/// statistically careful measurements).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The absolute rank error of a quantile result: the distance (in positions) between
/// the targeted index and the closest rank at which the returned weight occurs.
/// Exact algorithms must report 0.
pub fn rank_error(instance: &Instance, ranking: &Ranking, result: &QuantileResult) -> u128 {
    let (below, equal) =
        rank_of_weight(instance, ranking, &result.weight).expect("instance was evaluated before");
    let lo = below;
    let hi = below + equal.max(1) - 1;
    if result.target_index < lo {
        lo - result.target_index
    } else {
        result.target_index.saturating_sub(hi)
    }
}

/// The relative rank error (absolute error divided by the number of answers).
pub fn relative_rank_error(instance: &Instance, ranking: &Ranking, result: &QuantileResult) -> f64 {
    rank_error(instance, ranking, result) as f64 / result.total_answers.max(1) as f64
}

/// The standard 3-path workload used by the scaling experiments (E-T53, E-T56a,
/// E-LEX, E-T62): `tuples` tuples per relation, join fan-out ≈ 10.
pub fn scaling_path_config(tuples: usize, seed: u64) -> PathConfig {
    PathConfig {
        atoms: 3,
        tuples_per_relation: tuples,
        join_domain: (tuples / 10).max(2),
        weight_range: 1_000_000,
        skew: 0.2,
        seed,
    }
}

/// The standard social-network workload of experiment E-INTRO.
pub fn scaling_social_config(rows: usize, seed: u64) -> SocialConfig {
    SocialConfig {
        rows_per_relation: rows,
        users: rows.max(1),
        events: (rows / 10).max(1),
        max_likes: 1_000,
        event_skew: 0.9,
        seed,
    }
}

/// Formats a duration in milliseconds with two decimals, for the experiment tables.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_core::solver::exact_quantile;

    #[test]
    fn rank_error_is_zero_for_exact_results() {
        let instance = scaling_path_config(100, 3).generate();
        let ranking = Ranking::sum(qjoin_query::variable::vars(&["x1", "x2", "x3"]));
        let result = exact_quantile(&instance, &ranking, 0.5).unwrap();
        assert_eq!(rank_error(&instance, &ranking, &result), 0);
        assert_eq!(relative_rank_error(&instance, &ranking, &result), 0.0);
    }

    #[test]
    fn timed_reports_elapsed_time() {
        let (value, elapsed) = timed(|| (0..10_000).sum::<u64>());
        assert_eq!(value, 49_995_000);
        assert!(elapsed.as_nanos() > 0);
    }

    #[test]
    fn standard_configs_have_the_requested_size() {
        assert_eq!(scaling_path_config(500, 0).database_size(), 1500);
        assert_eq!(scaling_social_config(500, 0).database_size(), 1500);
    }

    #[test]
    fn fmt_ms_renders_two_decimals() {
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.50");
    }
}
