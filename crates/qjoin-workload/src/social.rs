//! The social-network workload of the paper's introduction.

use crate::ZipfSampler;
use qjoin_data::{Database, Relation, Value};
use qjoin_query::query::social_network_query;
use qjoin_query::variable::vars;
use qjoin_query::Instance;
use qjoin_ranking::Ranking;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the social-network instance
/// `Admin(u1, e), Share(u2, e, l2), Attend(u3, e, l3)`.
///
/// Each tuple draws its event from a Zipf-like distribution over `events` (popular
/// events make the join fan out) and its like count uniformly from `0..max_likes`.
/// The motivating query of the paper asks for the 0.1-quantile of `l2 + l3` over the
/// join, which is the partial SUM handled by Theorem 5.6's tractable side.
#[derive(Clone, Debug, PartialEq)]
pub struct SocialConfig {
    /// Number of distinct users.
    pub users: usize,
    /// Number of distinct events.
    pub events: usize,
    /// Rows in each of the three relations.
    pub rows_per_relation: usize,
    /// Like counts are drawn from `0..max_likes`.
    pub max_likes: i64,
    /// Zipf skew of event popularity (0 = uniform).
    pub event_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig {
            users: 1_000,
            events: 100,
            rows_per_relation: 1_000,
            max_likes: 1_000,
            event_skew: 0.8,
            seed: 7,
        }
    }
}

impl SocialConfig {
    /// Generates the instance.
    pub fn generate(&self) -> Instance {
        assert!(self.users >= 1 && self.events >= 1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let event_dist = ZipfSampler::new(self.events, self.event_skew);
        let mut admin = Relation::new("Admin", 2);
        let mut share = Relation::new("Share", 3);
        let mut attend = Relation::new("Attend", 3);
        for _ in 0..self.rows_per_relation {
            let user = rng.random_range(0..self.users) as i64;
            let event = event_dist.sample(&mut rng) as i64;
            admin
                .push(vec![Value::from(user), Value::from(event)])
                .expect("arity");

            let user = rng.random_range(0..self.users) as i64;
            let event = event_dist.sample(&mut rng) as i64;
            let likes = rng.random_range(0..self.max_likes.max(1));
            share
                .push(vec![
                    Value::from(user),
                    Value::from(event),
                    Value::from(likes),
                ])
                .expect("arity");

            let user = rng.random_range(0..self.users) as i64;
            let event = event_dist.sample(&mut rng) as i64;
            let likes = rng.random_range(0..self.max_likes.max(1));
            attend
                .push(vec![
                    Value::from(user),
                    Value::from(event),
                    Value::from(likes),
                ])
                .expect("arity");
        }
        Instance::new(
            social_network_query(),
            Database::from_relations([admin, share, attend]).expect("distinct names"),
        )
        .expect("generated instance is consistent")
    }

    /// The ranking function of the motivating example: SUM of the share and attend
    /// like counts (`l2 + l3`).
    pub fn likes_ranking(&self) -> Ranking {
        Ranking::sum(vars(&["l2", "l3"]))
    }

    /// Total number of tuples the generated database will contain.
    pub fn database_size(&self) -> usize {
        3 * self.rows_per_relation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_exec::count::count_answers;

    #[test]
    fn generated_instance_matches_schema() {
        let config = SocialConfig {
            rows_per_relation: 200,
            ..Default::default()
        };
        let inst = config.generate();
        assert_eq!(inst.database_size(), 600);
        assert_eq!(inst.database().relation("Share").unwrap().arity(), 3);
        assert!(count_answers(&inst).unwrap() > 0);
    }

    #[test]
    fn likes_ranking_targets_adjacent_atoms() {
        // l2 and l3 live in Share and Attend, which both contain the event variable;
        // the dichotomy classification itself is asserted in the cross-crate
        // integration tests.
        let config = SocialConfig::default();
        let inst = config.generate();
        let ranking = config.likes_ranking();
        let share = inst.query().atom(1);
        let attend = inst.query().atom(2);
        assert!(share.contains(&ranking.weighted_vars()[0]));
        assert!(attend.contains(&ranking.weighted_vars()[1]));
    }

    #[test]
    fn event_skew_increases_output_size() {
        let base = SocialConfig {
            rows_per_relation: 400,
            events: 50,
            event_skew: 0.0,
            seed: 11,
            ..Default::default()
        };
        let skewed = SocialConfig {
            event_skew: 1.5,
            ..base.clone()
        };
        let uniform_count = count_answers(&base.generate()).unwrap();
        let skewed_count = count_answers(&skewed.generate()).unwrap();
        assert!(
            skewed_count > uniform_count,
            "skewed {skewed_count} <= uniform {uniform_count}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let config = SocialConfig::default();
        assert_eq!(config.generate().database(), config.generate().database());
    }
}
