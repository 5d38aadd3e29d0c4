//! The motivating example of the paper's introduction: a social network with
//! `Admin(u1, e), Share(u2, e, l2), Attend(u3, e, l3)`, asked for the 0.1-quantile of
//! the join ordered by `l2 + l3`.
//!
//! The join output is orders of magnitude larger than the database, yet the pivoting
//! algorithm answers the quantile query while touching only quasilinear amounts of
//! data; the brute-force baseline materializes everything. The example prints both
//! timings side by side for growing database sizes.
//!
//! Run with `cargo run --release --example social_network`.

use quantile_joins::prelude::*;
use std::time::Instant;

fn main() {
    println!(
        "{:>10} {:>14} {:>14} {:>12} {:>12} {:>8}",
        "db tuples", "join answers", "0.1-quantile", "pivoting", "baseline", "agree"
    );
    for rows in [500usize, 1_000, 2_000, 4_000] {
        let config = SocialConfig {
            rows_per_relation: rows,
            users: rows,
            events: (rows / 5).max(1),
            max_likes: 1_000,
            event_skew: 0.5,
            seed: 2023,
        };
        let instance = config.generate();
        let ranking = config.likes_ranking();

        let started = Instant::now();
        let encoded = EncodedInstance::from_instance(&instance).unwrap();
        let plan = Plan::prepare(encoded, ranking.clone()).unwrap();
        let fast = plan
            .solve(&[0.1], Accuracy::Exact, &NoopTracer)
            .unwrap()
            .remove(0);
        let pivoting_time = started.elapsed();

        let started = Instant::now();
        let slow =
            quantile_by_materialization(&instance, &ranking, 0.1, BaselineStrategy::Selection)
                .unwrap();
        let baseline_time = started.elapsed();

        println!(
            "{:>10} {:>14} {:>14} {:>12.2?} {:>12.2?} {:>8}",
            instance.database_size(),
            fast.total_answers,
            fast.weight.to_string(),
            pivoting_time,
            baseline_time,
            fast.weight == slow.weight
        );
    }
    println!("\nThe pivoting column grows with the database size; the baseline column grows");
    println!("with the (much larger) number of join answers — the gap is the whole point of");
    println!("the paper.");
}
