//! Star-join instances.

use crate::ZipfSampler;
use qjoin_data::{Database, Relation, Value};
use qjoin_query::query::star_query;
use qjoin_query::Instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a star instance `R_1(x_0, x_1), ..., R_k(x_0, x_k)`.
///
/// All relations share the central variable `x_0`, drawn from `center_domain` values;
/// leaf variables carry weights in `0..weight_range`. Star joins with SUM over the
/// leaves are the canonical *intractable* family of the dichotomy (the leaves form an
/// independent set), which makes them the stress test for the deterministic
/// approximation.
#[derive(Clone, Debug, PartialEq)]
pub struct StarConfig {
    /// Number of relations `k`.
    pub arms: usize,
    /// Tuples per relation.
    pub tuples_per_relation: usize,
    /// Domain size of the central join variable.
    pub center_domain: usize,
    /// Leaf weights are integers in `0..weight_range`.
    pub weight_range: i64,
    /// Zipf skew of the centre-value distribution.
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StarConfig {
    fn default() -> Self {
        StarConfig {
            arms: 3,
            tuples_per_relation: 1000,
            center_domain: 100,
            weight_range: 10_000,
            skew: 0.0,
            seed: 21,
        }
    }
}

impl StarConfig {
    /// Generates the instance.
    pub fn generate(&self) -> Instance {
        assert!(self.arms >= 1 && self.center_domain >= 1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let center_dist = ZipfSampler::new(self.center_domain, self.skew);
        let mut relations = Vec::with_capacity(self.arms);
        for i in 1..=self.arms {
            let mut rel = Relation::new(format!("R{i}"), 2);
            for _ in 0..self.tuples_per_relation {
                let center = center_dist.sample(&mut rng) as i64;
                let leaf = rng.random_range(0..self.weight_range.max(1));
                rel.push(vec![Value::from(center), Value::from(leaf)])
                    .expect("arity");
            }
            relations.push(rel);
        }
        Instance::new(
            star_query(self.arms),
            Database::from_relations(relations).expect("distinct names"),
        )
        .expect("generated instance is consistent")
    }

    /// Total number of tuples the generated database will contain.
    pub fn database_size(&self) -> usize {
        self.arms * self.tuples_per_relation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_exec::count::count_answers;

    #[test]
    fn shape_and_determinism() {
        let config = StarConfig {
            arms: 4,
            tuples_per_relation: 100,
            ..Default::default()
        };
        let inst = config.generate();
        assert_eq!(inst.query().num_atoms(), 4);
        assert_eq!(inst.database_size(), 400);
        assert_eq!(inst.database(), config.generate().database());
    }

    #[test]
    fn output_grows_superlinearly_in_arm_count() {
        let base = StarConfig {
            arms: 2,
            tuples_per_relation: 200,
            center_domain: 10,
            seed: 3,
            ..Default::default()
        };
        let more_arms = StarConfig {
            arms: 3,
            ..base.clone()
        };
        let c2 = count_answers(&base.generate()).unwrap();
        let c3 = count_answers(&more_arms.generate()).unwrap();
        assert!(c3 > c2);
        assert!(c2 > base.database_size() as u128);
    }
}
